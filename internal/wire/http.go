package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
)

// What both serving tiers decide about a request's HTTP envelope — its
// codec, its body cap, its refusal bytes and how a response is written —
// lives here, and both tiers call the same code: a request gets one answer
// whichever tier words it.

// The scheduling endpoints. /v1/batch speaks JSON only.
const (
	PathSchedule = "/v1/schedule"
	PathBatch    = "/v1/batch"
	// JSONContentType is the Content-Type of every JSON body either tier
	// writes.
	JSONContentType = "application/json"
)

// IsBinary reports whether a request to path with this Content-Type header
// speaks the binary codec: path is /v1/schedule, and the header's media
// type — parameters stripped, surrounding spaces trimmed — equals
// ContentType ignoring case, as RFC 9110 §8.3.1 compares type and subtype.
// Every other request speaks JSON, a batch under any header included.
func IsBinary(path, contentType string) bool {
	if i := strings.IndexByte(contentType, ';'); i >= 0 {
		contentType = contentType[:i]
	}
	return path == PathSchedule && strings.EqualFold(strings.TrimSpace(contentType), ContentType)
}

// ReadBody reads a request body into a pooled buffer, at most one byte past
// limit so that BodyError can tell an oversized body from a full one.
// declared is the request's Content-Length (negative when unknown). The
// buffer comes back on error too; the caller puts it back. The cap is
// counted here rather than by an io.LimitReader, which would escape to the
// heap: one allocation per request on either tier.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	return readAll(GetBuffer(), r, min(declared, limit+1), limit+1)
}

// BodyError is the refusal of a body ReadBody returned — its read error, or
// a body past limit, naming the cap — and nil for a body to decode.
func BodyError(body []byte, readErr error, limit int64) *ErrorInfo {
	switch {
	case readErr != nil:
		return &ErrorInfo{Code: CodeBadRequest, Message: fmt.Sprintf("reading request body: %v", readErr)}
	case int64(len(body)) > limit:
		return &ErrorInfo{Code: CodeBadRequest, Message: fmt.Sprintf("request body exceeds the %d-byte cap", limit)}
	}
	return nil
}

// appendWriter is the io.Writer json.Encoder needs over an append target.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// AppendJSON appends v's JSON encoding to dst, newline-terminated as
// json.Encoder writes it, so every JSON body either tier writes ends in one.
// On error dst comes back unchanged.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	w := appendWriter{b: dst}
	err := json.NewEncoder(&w).Encode(v)
	return w.b, err
}

// AppendJSONResponseHead opens a JSON success response: what AppendJSON
// writes for a ScheduleResponse up to the end of its first value, the name
// as a JSON string. name must be printable ASCII, the names the
// request scanner reads; of those, encoding/json escapes '"' and '\' with a
// backslash and '<', '>' and '&' as \u00XX. Written in front of a
// JSONResponseTail of the same answer, it makes AppendJSON's bytes.
func AppendJSONResponseHead(b, name []byte) []byte {
	const hex = "0123456789abcdef"
	b = append(b, `{"name":"`...)
	for _, c := range name {
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '<', '>', '&':
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// JSONResponseTail returns what follows the name in a JSON success response
// AppendJSON wrote: every byte the answer decides and the request's name
// does not, the closing newline included.
func JSONResponseTail(msg []byte) []byte {
	i := len(`{"name":"`)
	for msg[i] != '"' {
		if msg[i] == '\\' {
			i++
		}
		i++
	}
	return msg[i+1:]
}

// AppendRefusal appends a typed error body in the request's codec: a binary
// KindError message, or the JSON ErrorBody.
func AppendRefusal(dst []byte, binary bool, info *ErrorInfo) []byte {
	body := ErrorBody{Error: *info}
	if binary {
		return AppendError(dst, &body)
	}
	out, _ := AppendJSON(dst, body) // two strings cannot fail to marshal
	return out
}

// The two codecs' Content-Type values, built once: assigning one into a
// header map allocates nothing.
var hdrJSONType, hdrBinaryType = []string{JSONContentType}, []string{ContentType}

// cachedLengths bounds the body lengths whose Content-Length value is
// built once. It covers every refusal and, in either codec, the answer to
// an instance of 64 tasks (a 64×32 JSON answer is ≈ 3.7 KB); a longer body
// formats its length as it is written.
const cachedLengths = 1 << 13

// contentLengths holds the Content-Length value of each body length below
// cachedLengths, built on its first use and never changed after.
var contentLengths [cachedLengths]atomic.Pointer[[1]string]

// contentLength returns the Content-Length header value of an n-byte body.
// Below cachedLengths it is the table's, so assigning it into a header map
// allocates nothing; its capacity is 1, so an append to it copies rather
// than writing into the table.
func contentLength(n int) []string {
	if n >= cachedLengths {
		return []string{strconv.Itoa(n)}
	}
	v := contentLengths[n].Load()
	if v == nil {
		contentLengths[n].CompareAndSwap(nil, &[1]string{strconv.Itoa(n)})
		v = contentLengths[n].Load()
	}
	return v[:]
}

// WriteResponse writes one response with an exact Content-Length: either
// codec's Content-Type, any other passed through (none when empty), and
// Retry-After when set.
func WriteResponse(w http.ResponseWriter, status int, contentType string, body []byte, retryAfter string) {
	h := w.Header()
	switch contentType {
	case "":
	case ContentType:
		h["Content-Type"] = hdrBinaryType
	case JSONContentType:
		h["Content-Type"] = hdrJSONType
	default:
		h.Set("Content-Type", contentType)
	}
	if retryAfter != "" {
		h.Set("Retry-After", retryAfter)
	}
	h["Content-Length"] = contentLength(len(body))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// WriteJSON writes v as a JSON response from a pooled buffer: the admin
// endpoints' bodies.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	out, err := AppendJSON(GetBuffer(), v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	} else {
		WriteResponse(w, status, JSONContentType, out, "")
	}
	PutBuffer(out)
}
