package fairrank

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// The suggest endpoint's JSON codec. Suggest traffic is the serving hot
// path, and encoding/json's reflection used to cost more per query than the
// 2D kernel itself, so the two canonical request bodies are decoded and
// every response is encoded by hand:
//
//   - decodeSuggest parses {"weights":[…]} and {"batch":[[…],…]} without
//     reflection into one per-request float slab, and hands every other
//     body to encoding/json, so the accepted language and the error text
//     stay exactly encoding/json's;
//   - the append* encoders write byte-for-byte what json.Encoder wrote for
//     the same values (number formatting, HTML-safe string escapes, the
//     trailing newline) into pooled buffers.
//
// FuzzSuggestBody holds both halves to encoding/json differentially.

// suggestRequest is the body of POST /v1/designers/{id}/suggest: exactly one
// of Weights (single query) and Batch (many queries) must be set.
type suggestRequest struct {
	Weights []float64   `json:"weights,omitempty"`
	Batch   [][]float64 `json:"batch,omitempty"`
}

// decodeSuggest decodes a suggest body: the canonical shapes through the
// non-reflective scanner, everything else through json.Unmarshal.
func decodeSuggest(body []byte) (suggestRequest, error) {
	if req, ok := scanSuggest(body); ok {
		return req, nil
	}
	var req suggestRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// scanSuggest is the fast path of decodeSuggest. It accepts exactly the
// bodies made of one object with the single key "weights" (an array of
// numbers) or "batch" (an array of arrays of numbers), with JSON whitespace
// anywhere, and yields what json.Unmarshal would: non-nil slices, even when
// empty, and floats from strconv.ParseFloat on each checked number token.
// It declines (ok false) anything else — other or duplicate keys, keys in
// another case or with escapes, null, trailing bytes, out-of-range numbers —
// and the caller falls back to encoding/json.
//
// Two passes over the body: the first checks the grammar and counts the
// numbers and rows without storing anything, so a malformed body is
// declined before anything is allocated for it; the second allocates the
// floats in one slab of exactly the counted size, plus the row table for a
// batch, and parses into them. A request thus costs at most two
// allocations however many queries it holds, and they are bounded by the
// body's valid content (a number takes at least two bytes with its
// separator). The slab is never pooled: answers may alias the query
// vectors.
func scanSuggest(body []byte) (suggestRequest, bool) {
	s := suggestScanner{b: body}
	if !s.scan() {
		return suggestRequest{}, false
	}
	nums, rows, batch := s.nums, s.rowCount, s.batch
	s = suggestScanner{b: body, parse: true, vals: make([]float64, nums)}
	if batch {
		s.rows = make([][]float64, 0, rows)
	}
	if !s.scan() {
		return suggestRequest{}, false // a number out of float64 range
	}
	if s.batch {
		return suggestRequest{Batch: s.rows}, true
	}
	return suggestRequest{Weights: s.vals[:s.nums:s.nums]}, true
}

// suggestScanner walks one canonical suggest body. Without parse it only
// checks the grammar and counts the numbers and rows; with parse it parses
// each number into vals (sized by the first pass) and, for a batch, slices
// the rows out of it.
type suggestScanner struct {
	b        []byte
	i        int
	batch    bool
	parse    bool
	nums     int // numbers scanned so far
	rowCount int // batch rows scanned so far
	vals     []float64
	rows     [][]float64
}

func (s *suggestScanner) scan() bool {
	s.space()
	if !s.byte('{') {
		return false
	}
	s.space()
	switch {
	case s.literal(`"weights"`):
	case s.literal(`"batch"`):
		s.batch = true
	default:
		return false
	}
	s.space()
	if !s.byte(':') {
		return false
	}
	s.space()
	if s.batch {
		if !s.rowList() {
			return false
		}
	} else if _, ok := s.array(); !ok {
		return false
	}
	s.space()
	if !s.byte('}') {
		return false
	}
	s.space()
	return s.i == len(s.b)
}

// rowList scans '[' (array (',' array)*)? ']'.
func (s *suggestScanner) rowList() bool {
	if !s.byte('[') {
		return false
	}
	s.space()
	if s.byte(']') {
		return true
	}
	for {
		row, ok := s.array()
		if !ok {
			return false
		}
		s.rowCount++
		if s.parse {
			s.rows = append(s.rows, row) // within the counted capacity
		}
		s.space()
		if s.byte(']') {
			return true
		}
		if !s.byte(',') {
			return false
		}
		s.space()
	}
}

// array scans '[' (number (',' number)*)? ']' and, when parsing, returns the
// parsed row, a full-capacity slice of vals (appending to one row never
// overwrites the next).
func (s *suggestScanner) array() ([]float64, bool) {
	if !s.byte('[') {
		return nil, false
	}
	start := s.nums
	s.space()
	if !s.byte(']') {
		for {
			if !s.number() {
				return nil, false
			}
			s.space()
			if s.byte(']') {
				break
			}
			if !s.byte(',') {
				return nil, false
			}
			s.space()
		}
	}
	if !s.parse {
		return nil, true
	}
	return s.vals[start:s.nums:s.nums], true
}

// number scans one token of the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and, when parsing, parses
// it. A syntactically valid number ParseFloat rejects (out of range) fails
// the scan, leaving the error to encoding/json.
func (s *suggestScanner) number() bool {
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return false
		}
		i = j
	}
	if s.parse {
		// The body is never mutated while the request is served, so the
		// token can be viewed as a string without copying.
		f, err := strconv.ParseFloat(unsafe.String(&b[start], i-start), 64)
		if err != nil {
			return false
		}
		s.vals[s.nums] = f
	}
	s.nums++
	s.i = i
	return true
}

// digits returns the index just past the run of ASCII digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}

func (s *suggestScanner) space() {
	b, i := s.b, s.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	s.i = i
}

func (s *suggestScanner) byte(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *suggestScanner) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// maxPooledResponse caps the capacity of a response buffer returned to the
// pool: one huge batch must not pin its buffer for the life of the process
// (the same retention rule as engine.Scratch.Reset).
const maxPooledResponse = 1 << 22

var responsePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// The response shapes the append encoders reproduce, as encoding/json
// encodes them: one answer is {"weights":[…],"distance":…,"already_fair":…}
// with "weights" omitted when empty, a failed batch slot is
// {"distance":0,"already_fair":false,"error":"…"}, a batch is
// {"results":[…]}, and an error response is {"error":"…"}. Each body ends
// in the newline json.Encoder appends.

// appendSuggestion appends one answer object. It fails, like encoding/json,
// on a NaN or infinite number.
func appendSuggestion(dst []byte, s *Suggestion) ([]byte, error) {
	var err error
	dst = append(dst, '{')
	if len(s.Weights) > 0 {
		dst = append(dst, `"weights":[`...)
		for i, w := range s.Weights {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendFloat(dst, w); err != nil {
				return dst, err
			}
		}
		dst = append(dst, "],"...)
	}
	dst = append(dst, `"distance":`...)
	if dst, err = appendFloat(dst, s.Distance); err != nil {
		return dst, err
	}
	dst = append(dst, `,"already_fair":`...)
	dst = strconv.AppendBool(dst, s.AlreadyFair)
	return append(dst, '}'), nil
}

// appendResults appends a batch response body (an empty batch answers
// "results":[]).
func appendResults(dst []byte, results []BatchResult) ([]byte, error) {
	dst = append(dst, `{"results":[`...)
	for i, r := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		if r.Err != nil {
			dst = append(dst, `{"distance":0,"already_fair":false`...)
			if msg := r.Err.Error(); msg != "" { // "error" is omitempty
				dst = appendString(append(dst, `,"error":`...), msg)
			}
			dst = append(dst, '}')
			continue
		}
		var err error
		if dst, err = appendSuggestion(dst, r.Suggestion); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}\n"...), nil
}

// appendSuggestionBody appends a single-query response body.
func appendSuggestionBody(dst []byte, s *Suggestion) ([]byte, error) {
	dst, err := appendSuggestion(dst, s)
	return append(dst, '\n'), err
}

// appendErrorBody appends an error response body.
func appendErrorBody(dst []byte, msg string) []byte {
	dst = append(dst, `{"error":`...)
	dst = appendString(dst, msg)
	return append(dst, "}\n"...)
}

// appendFloat formats f as encoding/json does: like ES6 number-to-string,
// 'f' notation except for magnitudes below 1e-6 or from 1e21 up, which use
// 'e' notation with a one-digit negative exponent left unpadded.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on (its
// default for Marshal and Encoder): ", \ and control characters escaped,
// <, > and & as \u003c, \u003e and \u0026, invalid UTF-8 as \ufffd,
// and U+2028/U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// writeSuggestion answers a single suggest request.
func writeSuggestion(w http.ResponseWriter, s *Suggestion) {
	bp := responsePool.Get().(*[]byte)
	b, err := appendSuggestionBody((*bp)[:0], s)
	sendEncoded(w, bp, b, err)
}

// writeResults answers a batch suggest request.
func writeResults(w http.ResponseWriter, results []BatchResult) {
	bp := responsePool.Get().(*[]byte)
	b, err := appendResults((*bp)[:0], results)
	sendEncoded(w, bp, b, err)
}

// sendEncoded writes a 200 with the encoded body — or, when encoding
// failed, a 500 with the reason, never a 200 with an empty or truncated
// body — and returns the buffer to the pool.
func sendEncoded(w http.ResponseWriter, bp *[]byte, b []byte, err error) {
	code := http.StatusOK
	if err != nil {
		code = http.StatusInternalServerError
		b = appendErrorBody(b[:0], "encoding response: "+err.Error())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
	if cap(b) <= maxPooledResponse {
		*bp = b[:0]
		responsePool.Put(bp)
	}
}
