package router

import (
	"bytes"
	"context"
	"net/http"

	"malsched/internal/obs"
	"malsched/internal/wire"
)

// transport is the byte-level seam between the router and one shard: one
// request body in, one response body out. The response is appended to dst,
// which the caller owns; body is only read, never retained past the return.
// retryAfter passes a shedding shard's Retry-After through to the client.
// err reports a failure to reach the shard at all (a backend's own HTTP
// errors are responses, not errors).
//
// Three transports implement it, resolved once per backend at New:
// an in-process shard (server.Server) implements it itself, so a hop is a
// method call; any other http.Handler is wrapped in handlerTransport; a
// Backend.URL gets urlTransport.
type transport interface {
	Serve(ctx context.Context, path, contentType string, body []byte, reqID string, dst []byte) (status int, respType string, out []byte, retryAfter string, err error)
}

// newTransport picks a backend's transport; Handler wins over URL.
func newTransport(b Backend, client *http.Client) transport {
	if t, ok := b.Handler.(transport); ok {
		return t
	}
	if b.Handler != nil {
		return handlerTransport{b.Handler}
	}
	return urlTransport{client: client, base: b.URL}
}

// newRequest builds the POST both HTTP-shaped transports send.
func newRequest(ctx context.Context, url, contentType string, body []byte, reqID string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(obs.RequestIDHeader, reqID)
	return req, nil
}

// handlerTransport drives an arbitrary in-process http.Handler — a test's
// fault wrapper, say — with a request and a recorder per call.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) Serve(ctx context.Context, path, contentType string, body []byte, reqID string, dst []byte) (int, string, []byte, string, error) {
	req, err := newRequest(ctx, path, contentType, body, reqID)
	if err != nil {
		return 0, "", dst, "", err
	}
	rec := &responseRecorder{header: make(http.Header), status: http.StatusOK, body: dst}
	t.h.ServeHTTP(rec, req)
	return rec.status, rec.header.Get("Content-Type"), rec.body, rec.header.Get("Retry-After"), nil
}

// responseRecorder captures an in-process handler's response, the body
// appended to the caller's buffer.
type responseRecorder struct {
	header http.Header
	status int
	body   []byte
}

func (r *responseRecorder) Header() http.Header { return r.header }
func (r *responseRecorder) WriteHeader(s int)   { r.status = s }
func (r *responseRecorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

// urlTransport reaches a remote msserve over HTTP.
type urlTransport struct {
	client *http.Client
	base   string
}

func (t urlTransport) Serve(ctx context.Context, path, contentType string, body []byte, reqID string, dst []byte) (int, string, []byte, string, error) {
	req, err := newRequest(ctx, t.base+path, contentType, body, reqID)
	if err != nil {
		return 0, "", dst, "", err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, "", dst, "", err
	}
	defer resp.Body.Close()
	out, err := wire.ReadAll(dst, resp.Body, min(resp.ContentLength, DefaultMaxBodyBytes))
	if err != nil {
		return 0, "", out, "", err
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), out, resp.Header.Get("Retry-After"), nil
}
